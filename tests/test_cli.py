import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubekit
from cubekit import cli
from cubekit.cli import main
from cubekit.jsonio import canonical_dumps, jsonable
from cubekit.fixtures import spider_with_axes, tree_with_axes
from cubekit.graphs import TreeIndex
from cubekit.hhs import HHSInstance


def test_validate_reports_missing_rho_as_defect(tmp_path):
    h = spider_with_axes(6, 8)
    doms = tuple(
        dataclasses.replace(d, rho={}) if d.id == "axis0" else d for d in h.domains
    )
    inp = tmp_path / "broken.json"
    out = tmp_path / "report.json"
    inp.write_text(json.dumps(HHSInstance(h.ambient, doms, h.E).to_dict()))
    # exit 2 is "validation defects"; exit 1 would mean malformed input
    assert main(["validate", "--in", str(inp), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert not report["ok"]
    bad = [f for f in report["findings"] if f["check"] == "rho-presence" and not f["ok"]]
    assert bad and bad[0]["witness"] == ["axis0", "axis1"]


@pytest.mark.parametrize("defect", ["rho-out-of-range", "short-rho-map"])
def test_validate_reports_bad_rho_data_as_defect(defect, tmp_path):
    h = spider_with_axes(6, 8, include_tree_domain=True)
    if defect == "rho-out-of-range":
        target, field, pair = "axis0", "rho", ["axis0", "axis1"]
        value = {**h.by_id["axis0"].rho, "axis1": frozenset([999])}
    else:
        target, field, pair = "tree", "rho_map", ["tree", "axis0"]
        rows = h.by_id["tree"].rho_map
        value = {**rows, "axis0": rows["axis0"][:3]}
    doms = tuple(
        dataclasses.replace(d, **{field: value}) if d.id == target else d
        for d in h.domains
    )
    inp = tmp_path / "broken.json"
    out = tmp_path / "report.json"
    inp.write_text(json.dumps(HHSInstance(h.ambient, doms, h.E).to_dict()))
    assert main(["validate", "--in", str(inp), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    bad = [f for f in report["findings"] if f["check"] == "rho-presence" and not f["ok"]]
    assert bad and bad[0]["witness"] == pair


@pytest.mark.parametrize(
    "command, fixture",
    [("build-quasitree", ["axes-system", "--n", "40"]), ("promote", ["tree-axes", "--n", "30"])],
    ids=["build-quasitree", "promote"],
)
def test_zero_denominator_flag_is_an_input_error(command, fixture, tmp_path, capsys):
    inp = str(tmp_path / "fixture.json")
    assert main(["gen-fixture", *fixture, "--out", inp]) == 0
    capsys.readouterr()
    # rejected by argparse like `--K abc`, not a ZeroDivisionError traceback
    assert main([command, "--in", inp, "--K", "1/0"]) == 1
    assert "invalid as_number value: '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["psi", "--samples", "-3"], "--samples"),
        (["df-check", "--s", "600", "--samples", "-3"], "--samples"),
        (["pack", "--R", "3", "--count", "-2"], "--count"),
        (["psi", "--samples", "many"], "--samples"),
        (["pack", "--R", "-1"], "--R"),
        (["helly", "--R", "-1"], "--R"),
    ],
    ids=["psi-samples", "df-check-samples", "pack-count", "not-a-number", "pack-R", "helly-R"],
)
def test_negative_count_is_an_input_error(args, flag, tmp_path, capsys):
    inp = str(tmp_path / "fixture.json")
    assert main(["gen-fixture", "tree-axes", "--n", "30", "--out", inp]) == 0
    capsys.readouterr()
    # rejected by argparse, naming the flag, before any numpy array is sized
    assert main([args[0], "--in", inp, *args[1:]]) == 1
    captured = capsys.readouterr()
    assert f"argument {flag}: must be a non-negative integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["tree-axes", "axes-system"])
def test_fixture_without_two_leaves_is_an_input_error(kind, capsys):
    # a one-vertex tree has no leaf pair to draw an axis between
    assert main(["gen-fixture", kind, "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert "error: could not place 4" in captured.err and "the tree has 0 leaves" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "kind, n, cause",
    [
        ("tree-axes", 2, "axes: the tree has 0 leaf pairs at distance >= 3"),
        ("tree-axes", 3, "axes: the tree has 0 leaf pairs at distance >= 3"),
        ("tree-axes", 4, "axes: the tree has 0 leaf pairs at distance >= 3"),
        ("tree-axes", 6, "axes: the tree has 3 leaf pairs at distance >= 3"),
        ("axes-system", 2, "lines: the tree has 0 leaf pairs at distance >= 2"),
        ("axes-system", 3, "lines: the tree has 1 leaf pair at distance >= 2"),
    ],
)
def test_fixture_whose_tree_cannot_hold_the_axes_names_the_cause(kind, n, cause, capsys):
    # no seed can help: the drawn tree has fewer far-apart leaf pairs than axes
    assert main(["gen-fixture", kind, "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert f"error: could not place 4 {cause}" in captured.err
    assert "vary the seed" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("C", ["0", "-1", "two"])
def test_promote_C_must_be_a_positive_integer(C, tmp_path, capsys):
    inp = str(tmp_path / "fixture.json")
    assert main(["gen-fixture", "tree-axes", "--n", "30", "--out", inp]) == 0
    capsys.readouterr()
    # refused by argparse, not as "subset is not 0-connected" after the pipeline
    assert main(["promote", "--in", inp, "--C", C]) == 1
    captured = capsys.readouterr()
    assert f"argument --C: must be a positive integer, not '{C}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "fixture",
    [["product-lines", "--n", "1"], ["spider-axes", "--legs", "2", "--leg-length", "0"]],
    ids=["product-lines-1", "spider-legs-0"],
)
def test_promote_on_an_ambient_graph_without_edges(fixture, tmp_path, capsys):
    inp = str(tmp_path / "fixture.json")
    assert main(["gen-fixture", *fixture, "--out", inp]) == 0
    capsys.readouterr()
    # the default C has no ambient edge to measure; it is 1, not an empty max()
    assert main(["promote", "--in", inp]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["C"] == 1
    assert report["skeleton"] == {
        "dimension": 0, "graph": {"edges": [], "n": 1}, "halfspaces": [], "hyperplanes": []
    }


@pytest.mark.parametrize("legs", ["0", "-2", "1", "3"])
def test_spider_fixture_needs_an_even_number_of_legs_from_2(legs, capsys):
    # zero legs would write an instance with no domains
    assert main(["gen-fixture", "spider-axes", "--legs", legs]) == 1
    captured = capsys.readouterr()
    assert f"error: need an even number of legs, at least 2, not {legs}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args", [["psi"], ["promote"], ["psi", "--K", "3"], ["helly", "--R", "5"], ["validate"]],
    ids=["psi", "promote", "psi-K", "helly", "validate"],
)
def test_instance_without_domains_is_refused_at_colouring(args, tmp_path, capsys):
    inp = tmp_path / "bare.json"
    inp.write_text(json.dumps({"E": 0, "ambient": {"n": 1, "edges": []}, "domains": []}))
    # a typed input error, not a TypeError traceback or an empty max()
    assert main([args[0], "--in", str(inp), *args[1:]]) == 1
    captured = capsys.readouterr()
    assert "error: the instance has no domains: there is nothing to colour" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("top, held", [("[1,2]", "an array"), ('"x"', "a string")], ids=["list", "string"])
@pytest.mark.parametrize(
    "args",
    [["validate"], ["median-check"], ["dual"], ["build-quasitree", "--K", "3"], ["df-check", "--s", "2"],
     ["psi"], ["promote"], ["helly", "--R", "5"], ["pack", "--R", "3"]],
    ids=lambda args: args[0],
)
def test_input_that_is_not_a_json_object_is_refused(args, top, held, tmp_path, capsys):
    inp = tmp_path / "top.json"
    inp.write_text(top)
    # one typed error from load_json, not a TypeError from the first lookup
    assert main([args[0], "--in", str(inp), *args[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {inp} holds {held}, not a JSON object\n"
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "command, document, cause",
    [
        ("median-check", {"n": 3, "edges": 5}, "edges is an integer, not an array"),
        ("median-check", {"n": 3, "edges": [[0, 1], [1]]}, "edges[1] has 1 entries, not 2"),
        ("median-check", {"edges": []}, "n is missing"),
        ("validate", {"E": 0, "ambient": [1], "domains": []}, "ambient is an array, not an object"),
        ("validate", {"E": "0", "ambient": {"n": 1, "edges": []}, "domains": []}, "E is a string, not an integer"),
        (
            "validate",
            {"E": 0, "ambient": {"n": 2, "edges": []},
             "domains": [{"id": "a", "space": {"n": 2, "edges": [[0, True]]}, "pi": [], "rel": {}}]},
            "domains[0].space.edges[0][1] is a boolean, not an integer",
        ),
        ("dual", {"points": 3, "walls": 5}, "walls is an integer, not an array"),
        ("dual", {"points": 3, "walls": [[[0], [1, 2]], [[1, 2], [0]]]}, "walls 0 and 1 are the same bipartition"),
    ],
    ids=["edges-int", "edge-short", "n-missing", "ambient-list", "E-string", "nested-bool", "walls-int", "walls-equal"],
)
def test_input_of_the_wrong_shape_is_refused_naming_its_path(command, document, cause, tmp_path, capsys):
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(document))
    # one error line and exit 1, not a TypeError traceback
    assert main([command, "--in", str(inp)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cause}\n" and captured.out == ""


def _edge_instance(**changes) -> dict:
    """An instance on one edge whose one domain "a" is that edge, with
    `changes` made to the domain."""
    edge = {"n": 2, "edges": [[0, 1]]}
    domain = {"id": "a", "space": edge, "pi": [[0], [1]], "rel": {}, "rho": {}, "rho_map": {}, **changes}
    return {"E": 0, "ambient": edge, "domains": [domain]}


_BAD_ROWS = {
    "pi-string": ({"pi": [[0], ["1"]]}, "domains[0].pi[1][0] is a string, not an integer"),
    "pi-int": ({"pi": [[0], 1]}, "domains[0].pi[1] is an integer, not an array"),
    "pi-bool": ({"pi": [[0], [True]]}, "domains[0].pi[1][0] is a boolean, not an integer"),
    "pi-huge": ({"pi": [[0], [2**70]]}, "domains[0].pi holds an integer outside the 64-bit range"),
    "pi-empty": ({"pi": [[0], []]}, "empty projection of vertex 1 in a"),
    "pi-outside": ({"pi": [[0], [1, 2]]}, "projection of vertex 1 in a leaves its space of 2 vertices"),
    "rho-map-null": ({"rho_map": {"b": [[0], None]}}, "domains[0].rho_map.b[1] is null, not an array"),
    "rho-map-float": ({"rho_map": {"b": [[0, 1.5]]}}, "domains[0].rho_map.b[0][1] is a number, not an integer"),
}


@pytest.mark.parametrize("bad", list(_BAD_ROWS))
@pytest.mark.parametrize(
    "args", [["validate"], ["df-check", "--s", "0"], ["psi"], ["pack", "--R", "1"]], ids=lambda args: args[0]
)
def test_bad_projection_row_is_refused_naming_it(args, bad, tmp_path, capsys):
    changes, cause = _BAD_ROWS[bad]
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(_edge_instance(**changes)))
    # parsed into arrays in bulk, yet a bad row is still named by its path
    assert main([args[0], "--in", str(inp), *args[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cause}\n" and captured.out == ""


def test_bad_projection_row_leaves_no_traceback(tmp_path):
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(_edge_instance(pi=[[0], [2**70]])))
    run = _fresh_cli(["psi", "--in", str(inp)])
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr == "error: domains[0].pi holds an integer outside the 64-bit range\n"


def _tree_axes_30() -> dict:
    """The tree-axes instance of 30 vertices, seed 0, as JSON: domains axis0
    to axis3 and "tree", the ambient tree, whose last edge is [23, 27]."""
    return tree_with_axes(30, 4, 0).to_dict()


def _domain(data: dict, id: str) -> dict:
    return next(d for d in data["domains"] if d["id"] == id)


@pytest.mark.parametrize("graph", ["ambient", "tree"])
def test_helly_on_a_disconnected_graph_names_the_cut(graph, tmp_path, capsys):
    # without its last edge, 27 hangs off the rest; the searches of `helly`
    # would leave it at -1, so the graph is checked first, as a matrix was
    data = _tree_axes_30()
    g = data["ambient"] if graph == "ambient" else _domain(data, "tree")["space"]
    g["edges"] = g["edges"][:-1]
    inp = tmp_path / "cut.json"
    inp.write_text(json.dumps(data))
    assert main(["helly", "--in", str(inp), "--R", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[0] == "error: graph is disconnected: no path joins vertex 0 to vertex 27"
    assert captured.out == ""


@pytest.mark.parametrize("rho", [[999], [-1], []])
def test_rho_outside_its_target_space_is_refused_naming_both_domains(rho, tmp_path, capsys):
    # refused before any search reads it: 999 indexes past the space, and -1
    # would wrap to its last vertex
    data = _tree_axes_30()
    _domain(data, "axis0")["rho"]["tree"] = rho
    inp = tmp_path / "rho.json"
    inp.write_text(json.dumps(data))
    assert main(["helly", "--in", str(inp), "--R", "5"]) == 1
    cause = "rho of axis0 in tree names a vertex outside its space of 30 vertices" if rho else "empty rho of axis0 in tree"
    assert capsys.readouterr().err == f"error: {cause}\n"
    # the axiom scan reports the pair instead
    out = tmp_path / "report.json"
    assert main(["validate", "--in", str(inp), "--out", str(out)]) == 2
    bad = [f for f in json.loads(out.read_text())["findings"] if f["check"] == "rho-presence"]
    assert bad[0]["witness"] == ["axis0", "tree"]


@pytest.mark.parametrize("seed", [0, 1])
def test_helly_builds_no_matrix_of_a_large_tree(seed, tmp_path, monkeypatch):
    # every tree question of `helly` is a distance to a set, one search
    inp = tmp_path / "t.json"
    inp.write_text(json.dumps(tree_with_axes(400, 4, seed).to_dict()))
    dense = TreeIndex.distance_matrix

    def small_only(index):
        assert index.n <= 100, f"an n x n table of a tree of {index.n} vertices"
        return dense(index)

    monkeypatch.setattr(TreeIndex, "distance_matrix", small_only)
    assert main(["helly", "--in", str(inp), "--R", "5", "--out", str(tmp_path / "r.json")]) == 0


_PIECES = [{"n": 2, "edges": [[0, 1]]}, {"n": 1, "edges": []}]


@pytest.mark.parametrize(
    "document, cause",
    [
        ({"pieces": 5, "proj": []}, "pieces is an integer, not an array"),
        ({"pieces": [5], "proj": {}, "theta": 1}, "pieces[0] is an integer, not an object"),
        ({"pieces": [{"n": 1}], "proj": {}, "theta": 1}, "pieces[0].edges is missing"),
        ({"pieces": _PIECES, "proj": [], "theta": 1}, "proj is an array, not an object"),
        ({"pieces": _PIECES, "proj": {"0,1": 5, "1,0": [0]}, "theta": 1}, "proj.0,1 is an integer, not an array"),
        ({"pieces": _PIECES, "proj": {"0": [0]}, "theta": 1}, 'proj.0: the key is not "i,j" with integers i, j'),
        ({"pieces": _PIECES, "proj": {"0,1": [-1], "1,0": [0]}, "theta": 1}, "projection (0,1) leaves piece 0"),
        ({"pieces": _PIECES, "proj": {"0,1": [0], "1,0": [0]}, "theta": []}, "theta has 0 entries, not 2"),
        ({"pieces": _PIECES, "proj": {"0,1": [0], "1,0": [0]}, "theta": [1, 0]}, "theta has a zero denominator: [1, 0]"),
        ({"pieces": _PIECES, "proj": {"0,1": [0], "1,0": [0]}, "theta": "x"}, "theta is 'x', not a number"),
        ({"pieces": _PIECES, "proj": {"0,1": [0], "1,0": [0]}}, "theta is missing"),
    ],
    ids=["pieces-int", "piece-int", "piece-edges", "proj-list", "proj-int", "proj-key", "proj-negative", "theta-list",
         "theta-zero", "theta-string", "theta-missing"],
)
def test_projection_system_of_the_wrong_shape_is_refused_naming_its_path(document, cause, tmp_path, capsys):
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(document))
    # one error line and exit 1, not a TypeError, AttributeError or
    # IndexError traceback
    assert main(["build-quasitree", "--in", str(inp), "--K", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cause}\n" and captured.out == ""


@pytest.mark.parametrize("key", ["5,6", "0,0", "1,1", "0,2", "-1,0"])
def test_projection_entry_naming_no_pair_of_distinct_pieces_is_refused(key, tmp_path, capsys):
    # a typo in a key was dropped in silence, and the command exited 0
    document = {"pieces": _PIECES, "proj": {"0,1": [0], "1,0": [0], key: [0]}, "theta": 1}
    inp = tmp_path / "extra.json"
    inp.write_text(json.dumps(document))
    assert main(["build-quasitree", "--in", str(inp), "--K", "3"]) == 1
    captured = capsys.readouterr()
    i, j = key.split(",")
    assert captured.err == f"error: projection entry ({i},{j}) names no pair of the 2 pieces\n"
    assert captured.out == ""


def test_dual_of_27_singleton_walls_is_a_star(tmp_path, capsys):
    inp = tmp_path / "walls.json"
    walls = [[[i], [j for j in range(27) if j != i]] for i in range(27)]
    inp.write_text(json.dumps({"points": 27, "walls": walls}))
    assert main(["dual", "--in", str(inp)]) == 0
    report = json.loads(capsys.readouterr().out)
    graph = report["skeleton"]["graph"]
    assert graph["n"] == 28 and len(graph["edges"]) == 27
    assert report["skeleton"]["dimension"] == 1 and report["exhaustive"] is True


@pytest.mark.parametrize(
    "command, fixture, L, cause",
    [
        ("psi", ["tree-axes", "--n", "30"], "1e-300", f"colour 0: L=1/1{'0' * 300} is out of range"),
        ("build-quasitree", ["axes-system", "--n", "40"], f"1/1{'0' * 22}", f"L=1/1{'0' * 22} is out of range"),
    ],
    ids=["psi-L-1e-300", "build-quasitree-L-1e-22"],
)
def test_large_L_denominator_is_refused_with_a_named_cause(command, fixture, L, cause, tmp_path):
    inp = str(tmp_path / "fixture.json")
    assert main(["gen-fixture", *fixture, "--out", inp]) == 0
    flags = ["--samples", "10"] if command == "psi" else ["--K", "3"]
    run = _fresh_cli([command, "--in", inp, "--L", L, *flags])
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith("error: ") and cause in run.stderr
    assert "Traceback" not in run.stderr


def test_psi_at_a_large_L_denominator_is_exact_and_deterministic(tmp_path):
    # cross products of the scaled distances pass int64 here; the exact
    # maximum ratio is still found, the same in two fresh interpreters
    inp = str(tmp_path / "fixture.json")
    assert main(["gen-fixture", "tree-axes", "--n", "30", "--out", inp]) == 0
    runs = [_fresh_cli(["psi", "--in", inp, "--L", "1/3000000000", "--samples", "10"])
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["config"]["L"] == [1, 3000000000]


def _fresh_cli(args):
    """The CLI in a fresh interpreter, under a timeout, since a large L once
    looped forever on wrapped int64 cross products."""
    return subprocess.run(
        [sys.executable, "-m", "cubekit.cli", *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cubekit.__file__).resolve().parents[1])},
    )


# Every subcommand the benchmark workloads run, on numpy alone: importing
# cubekit and running them must leave scipy and networkx unimported.
NUMPY_ONLY = """
import pkgutil, sys
import cubekit
from cubekit import cli
from cubekit.cli import main
from cubekit.jsonio import canonical_dumps, jsonable
for info in pkgutil.iter_modules(cubekit.__path__):
    __import__(f"cubekit.{info.name}")
assert main(["gen-fixture", "tree-axes", "--n", "40", "--out", "t.json"]) == 0
assert main(["gen-fixture", "product-lines", "--n", "4", "--out", "l.json"]) == 0
runs = [
    ["validate", "--in", "t.json"],
    ["df-check", "--in", "t.json", "--s", "2000", "--samples", "40"],
    ["psi", "--in", "t.json", "--samples", "40"],
    ["pack", "--in", "t.json", "--R", "3"],
    ["promote", "--in", "t.json"],
    ["helly", "--in", "t.json", "--R", "5"],
    ["promote", "--in", "l.json"],
]
for args in runs:
    assert main([*args, "--out", "report.json"]) == 0, args
print(sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "networkx"}))
"""


def test_cli_paths_import_neither_scipy_nor_networkx(tmp_path):
    src = str(Path(cubekit.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY],
        capture_output=True, text=True, cwd=tmp_path, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# golden runs: every subcommand on small seeded fixtures
#
# Each case runs twice; both runs must give the same exit code and stdout
# (the determinism promise of the CLI), and that stdout must hash to the pin.
# A pin changes only when a report is meant to change.

FIXTURES = {
    "tree": ["tree-axes", "--n", "30"],
    "lines": ["product-lines", "--n", "4"],
    "spider": ["spider-axes", "--tree-domain"],
    "axes": ["axes-system", "--n", "40"],
    "q3": ["q3-walls"],
    # closures past the size of the unit tests: one grows (spider), one is large
    "spider-large": ["spider-axes", "--legs", "12", "--leg-length", "20", "--tree-domain"],
    "tree-300": ["tree-axes", "--n", "300"],
    # two axes and the tree: at L != 1 the quasitree of the axes is a tree
    # with an edge longer than 1, measured as every weighted quasitree is
    "spider-4": ["spider-axes", "--legs", "4", "--leg-length", "5", "--tree-domain"],
}

# 3x4 grid (median) and K_{2,3} (not median), as graph JSON
GRAPHS = {
    "grid": {
        "n": 12,
        "edges": [[r * 4 + c, r * 4 + c + 1] for r in range(3) for c in range(3)]
        + [[r * 4 + c, r * 4 + c + 4] for r in range(2) for c in range(4)],
    },
    "k23": {"n": 5, "edges": [[i, 2 + j] for i in range(2) for j in range(3)]},
}

CASES = {
    **{f"gen-{name}": ["gen-fixture", *spec] for name, spec in FIXTURES.items()},
    "validate-tree": ["validate", "--in", "{tree}"],
    "validate-lines": ["validate", "--in", "{lines}"],
    "validate-spider": ["validate", "--in", "{spider}"],
    "median-check-grid": ["median-check", "--in", "{grid}"],
    "median-check-k23": ["median-check", "--in", "{k23}"],
    "dual-q3": ["dual", "--in", "{q3}"],
    "build-quasitree-fraction": ["build-quasitree", "--in", "{axes}", "--K", "41/2", "--L", "3/2"],
    "build-quasitree-int": ["build-quasitree", "--in", "{axes}", "--K", "3"],
    "df-check-tree": ["df-check", "--in", "{tree}", "--s", "600", "--samples", "40"],
    "df-check-lines": ["df-check", "--in", "{lines}", "--s", "1", "--samples", "40"],
    "psi-tree": ["psi", "--in", "{tree}", "--samples", "40"],
    "psi-spider": ["psi", "--in", "{spider}", "--samples", "40"],
    "psi-lines": ["psi", "--in", "{lines}", "--samples", "20"],
    # L = 3/2: distances in halves (scale 2); colour 0 falls back, one defect is 3/2
    "psi-tree-fraction": ["psi", "--in", "{tree}", "--samples", "40", "--L", "3/2"],
    "promote-tree": ["promote", "--in", "{tree}"],
    "promote-lines": ["promote", "--in", "{lines}"],
    "promote-spider-large": ["promote", "--in", "{spider-large}"],
    "promote-tree-300": ["promote", "--in", "{tree-300}"],
    "helly-tree": ["helly", "--in", "{tree}", "--R", "5"],
    "helly-spider": ["helly", "--in", "{spider}", "--R", "5"],
    "pack-tree": ["pack", "--in", "{tree}", "--R", "3"],
    "pack-spider": ["pack", "--in", "{spider}", "--R", "2"],
    # the measure-axes benchmark's calls, at its scale (E = 13, so s = 100 * E)
    "validate-tree-300": ["validate", "--in", "{tree-300}"],
    "df-check-tree-300": ["df-check", "--in", "{tree-300}", "--s", "1300", "--samples", "2000"],
    "psi-tree-300": ["psi", "--in", "{tree-300}", "--samples", "2000"],
    "pack-tree-300": ["pack", "--in", "{tree-300}", "--R", "3"],
    "psi-spider-4-fraction": ["psi", "--in", "{spider-4}", "--samples", "40", "--L", "3/2"],
    "promote-spider-4-L2": ["promote", "--in", "{spider-4}", "--L", "2"],
    "helly-spider-4-L2": ["helly", "--in", "{spider-4}", "--R", "5", "--L", "2"],
    "missing-input": ["validate", "--in", "{missing}"],
    "unknown-subcommand": ["frobnicate"],
}

# case -> (exit code, SHA-256 of stdout)
PINS = {
    "gen-tree": (0, "56512fd81c21196ccff17c76a9f57cf9312e860742eb54cf78d8e4c54b95c9d6"),
    "gen-lines": (0, "e8f3e7f5e99b0bf52f0f81d18ad55086d8bb914714e4bfcea6b503a3fb096cf6"),
    "gen-spider": (0, "48eeae32f3febcee52b5f78698fd5f8f97b9c71432ae7102bb8650e27396ff66"),
    "gen-axes": (0, "5f79f0122ca004b4eff5d628cdc45f2785fc3e8609637a08e55f441c460a63c5"),
    "gen-q3": (0, "304547cddc539efcfd1a499410ceea7196e41fc4f5d4ffb4ea8d2ad9d9f2865c"),
    "gen-spider-large": (0, "2e8c7e87a750d78a8b5327fd9b4b44fc56eaa564b18d8259391ba50a89ef7de6"),
    "gen-tree-300": (0, "340eaad2845d9a5dc966c4216fec1006390de5586ef675d4766ed4de87bea43a"),
    "gen-spider-4": (0, "7dd36685612861fa58ebc95b82cc7575fc53f26810a9f47c334fb6c0af18b91c"),
    "validate-tree": (0, "4f53fb8fdd29356f3778cbdfc5c3e19214d5a4bea1079a65f411b693bb1af5b6"),
    "validate-lines": (0, "f4bb296dd1a7afc4576887c67e59491043e31a0fd63f61375b56f1621735feee"),
    "validate-spider": (0, "b452dd80299acf18f5a19c9a67a93ec2f88e33e3c6b16f6b4239b759a4f4c5c3"),
    "median-check-grid": (0, "39ac04795bb47ea07b78b694c9b3f6daf2ed1a07d502da4d253b6bf3c0f56fc0"),
    "median-check-k23": (0, "7b34d9e7f7269fe3ccfeb561eaacb931e7c7b8932d35b99c38b1ebcf3f0a61f9"),
    "dual-q3": (0, "b4c55fa051413d39aa28032e540da1511e43ada16fbe3628e41e807294387816"),
    "build-quasitree-fraction": (0, "a60f88fd3bf34dc39fcd95fdb029be3572e035cf36d954872280692c29249012"),
    "build-quasitree-int": (0, "53a1b3f0e84bf905f717bcbff13eab7ab29b1311cbfd04001d33b3aee40b25d7"),
    "df-check-tree": (0, "927a6597744cfadd1db656e883219d41039941a749cf0271989d0947a4665fd5"),
    "df-check-lines": (0, "6e5d34800e31b67578523044d0a6252f26bb1141d5c580b2397b542f8e5c0ac7"),
    "psi-tree": (0, "9a07188086fee676d0470d1de43f8bc848560f7231c0da58e8b5c114dbf5a030"),
    "psi-spider": (0, "f28d471746d92ee9ab5ab6eaf241826b270b9c2dab475867f4fd2e400c6c512e"),
    "psi-lines": (0, "63a376f29324c5c590bd3fddeee8b34f012e7946215b4721566c90f41c864f48"),
    "psi-tree-fraction": (0, "08fcae7ca0a21ded23a5dc23b50c1eb6175a3f6c87b8d4acb9f737b0602ec5ef"),
    "promote-tree": (0, "9fe8349e99528abdc7c789c00b727df53dc4d68feeddae4f3b73ea5cec38395c"),
    "promote-lines": (0, "e8e132c7a84e2c3fc4d73415788ad7fabda599ed66c97d03a3c371cedd306b77"),
    "promote-spider-large": (0, "2e31f08fae1a34291b61d61774473b2e500b46035b43b7600771ab827d9045e2"),
    "promote-tree-300": (0, "b1db27a80997aa00c408c7cda85c40fe10cd2006d8aa07133f10e46c67e1ea95"),
    "helly-tree": (0, "82b6f97cd84e3dc1ea80bfd60755897aadf0949e247d13e6b27bea7eedc7e016"),
    "helly-spider": (0, "6a1ad6e110835aef63d42ecde2bae020ab6edd74b320ae99034fa10a57ff2a88"),
    "pack-tree": (0, "6696edb93a8ecc017a7fc43b8986a3d932399a30474ea74bac76a5eb3b4eb3df"),
    "pack-spider": (0, "7d49561fbe07b1a94c9e9692373be8b23562571e0b6209e9bda5b75b4b46987a"),
    "validate-tree-300": (0, "0321f868e3155bfed9c69c26e3f75cf0a63fbd571b224a3311f98b30b301eb0b"),
    "df-check-tree-300": (0, "abfb1ee62a61840cd72cb3f8a51a4933f38240967c207fceb562e17bbc5acc3b"),
    "psi-tree-300": (0, "9f427baa60df8e5d6439702eb899cfabd09bccab622c1247f8b246f877e67f29"),
    "pack-tree-300": (0, "4f381a8caf753c1cfac958be33173326beca7dda928ff8f2f4ed97ce9f97c7f0"),
    "psi-spider-4-fraction": (0, "b8000a961ed71061090a44d8554592197ca48bc635622440882160b85e1288c9"),
    "promote-spider-4-L2": (0, "7523b100f8f523b207de5ad063824d7faba057c8af3262f2b688f126c2fbffa6"),
    "helly-spider-4-L2": (0, "031f2d739b75007d39cdcc05342127f43ad9918aa51e8f7b2db09ac131bb285c"),
    "missing-input": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "unknown-subcommand": (64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    paths = {"missing": str(d / "missing.json")}
    for name, spec in FIXTURES.items():
        paths[name] = str(d / f"{name}.json")
        assert main(["gen-fixture", *spec, "--out", paths[name]]) == 0
    for name, graph in GRAPHS.items():
        paths[name] = str(d / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(graph, fh)
    return paths


def _run(capsys, args):
    capsys.readouterr()
    code = main(args)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", list(CASES))
def test_golden_report(case, inputs, capsys):
    args = [a.format(**inputs) for a in CASES[case]]
    first = _run(capsys, args)
    second = _run(capsys, args)
    assert first == second
    code, out = first
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == PINS[case]


def _keys_are_str(obj) -> bool:
    if isinstance(obj, dict):
        return all(type(k) is str and _keys_are_str(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(_keys_are_str(v) for v in obj)
    return True


@pytest.mark.parametrize("case", list(CASES))
def test_report_text_is_the_exact_encoding_and_its_keys_are_str(case, inputs, capsys, monkeypatch):
    # the C-encoder path of canonical_dumps against the pure-Python path,
    # on the report object itself, which every builder writes with str keys
    reports = []
    monkeypatch.setattr(cli, "canonical_dumps", lambda obj: reports.append(obj) or canonical_dumps(obj))
    _run(capsys, [a.format(**inputs) for a in CASES[case]])
    assert bool(reports) == (case not in ("missing-input", "unknown-subcommand"))
    for report in reports:
        exact = json.dumps(jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"
        assert canonical_dumps(report) == exact
        assert _keys_are_str(report)


@pytest.mark.parametrize("case", ["promote-tree", "psi-tree"])
def test_reports_are_byte_identical_across_fresh_interpreters(case, inputs):
    # two interpreters with different string-hash seeds: any dependence on
    # set or dict order of hashed strings would show in the bytes
    src = str(Path(cubekit.__file__).resolve().parents[1])
    args = [a.format(**inputs) for a in CASES[case]]
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        run = subprocess.run(
            [sys.executable, "-m", "cubekit.cli", *args],
            capture_output=True, env=env, timeout=300, check=True,
        )
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == PINS[case][1]
