"""Every top-level definition of `src/cubekit` is reached from a subcommand,
and every method or property of its classes runs in one.

Definitions: a static pass over the package's source.  It starts at every
top-level definition of `cli.py` and follows each name a definition uses (a
bare name or an attribute) to the top-level definitions of that name in any
module.  A class is reached as a whole, methods included.  Imports are not
definitions, so a name that only an `import` or `__init__` binds counts for
nothing.  What the pass cannot reach serves no subcommand.

Members: a runtime pass.  Every subcommand runs in process on small
fixtures under `sys.setprofile`, which records the code object of each
Python function called.  Every method, property getter and cached-property
function (dunders aside) of every class defined in the package must be
among them.  A name check could not tell two classes' members of one name
apart; the code objects can.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

import cubekit
from cubekit.cli import main

ALLOWED = {"__init__.__version__"}
# Members that no subcommand runs, kept for a caller outside them, with the
# reason.
ALLOWED_MEMBERS = {
    "CubeSkeleton.hyperplanes": "perfbench/tracing.py counts each decomposition's hyperplanes",
    "MedianAlgebra.median_bulk": "perfbench/tracing.py patches it to count median rows",
    "TreeProduct.median_bulk": "perfbench/tracing.py patches it to count median rows",
    "SetRows.from_rows": "Domain converts rows given as Python collections by code that builds an "
    "instance; the subcommands read SetRows straight from the JSON",
    "QuasiTreeSpace.graph": "build_quasitree fills it; it derives the graph of a quasitree made "
    "otherwise, such as a dataclasses.replace copy with other edges",
}


def _definitions(src: Path) -> dict:
    """(module, name) -> node, for every top-level def, class and
    assignment of a plain name."""
    defs = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                defs[(path.stem, name)] = node
    return defs


def _used_names(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached(src: Path) -> list[str]:
    defs = _definitions(src)
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    todo = [key for key in defs if key[0] == "cli"]
    seen = set(todo)
    while todo:
        for name in _used_names(defs[todo.pop()]):
            for key in by_name.get(name, ()):
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return sorted(f"{mod}.{name}" for mod, name in defs if (mod, name) not in seen)


def test_every_definition_is_reached_from_a_subcommand():
    src = Path(cubekit.__file__).resolve().parent
    assert [name for name in unreached(src) if name not in ALLOWED] == []


def test_the_pass_finds_an_unreached_definition(tmp_path):
    (tmp_path / "cli.py").write_text("def main():\n    return helper()\n")
    (tmp_path / "lib.py").write_text(
        "def helper():\n    return 1\n\n\ndef orphan():\n    return helper()\n\n\nLIMIT = 3\n"
    )
    assert unreached(tmp_path) == ["lib.LIMIT", "lib.orphan"]


def member_functions(modules) -> dict:
    """Class.member -> code object, for each method, property getter and
    cached-property function (dunders aside) of each class defined in the
    given modules."""
    out = {}
    for mod in modules:
        for cls in vars(mod).values():
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                continue
            for name, value in vars(cls).items():
                if name.startswith("__") and name.endswith("__"):
                    continue
                if isinstance(value, property):
                    value = value.fget
                elif isinstance(value, cached_property):
                    value = value.func
                elif isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if inspect.isfunction(value):
                    out[f"{cls.__name__}.{name}"] = value.__code__
    return out


def uncalled_members(modules, run) -> list[str]:
    """The members of `member_functions(modules)` whose code no Python call
    made while `run()` runs executes."""
    members = member_functions(modules)
    wanted, called = set(members.values()), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in wanted:
            called.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(before)
    return sorted(name for name, code in members.items() if code not in called)


# Inputs written as JSON: a square (median) and K_{2,3} (not median) for
# median-check, and an instance on one edge whose one domain projects vertex
# 1 to both ends: the generated fixtures project every vertex to one vertex,
# so only this instance reads a projection table with wider rows
INPUTS = {
    "square": {"n": 4, "edges": [[0, 1], [1, 3], [0, 2], [2, 3]]},
    "k23": {"n": 5, "edges": [[i, 2 + j] for i in range(2) for j in range(3)]},
    "wide": {
        "E": 1,
        "ambient": {"n": 2, "edges": [[0, 1]]},
        "domains": [
            {"id": "a", "space": {"n": 2, "edges": [[0, 1]]}, "pi": [[0], [0, 1]], "rel": {}, "rho": {}}
        ],
    },
}
FIXTURES = {
    "tree": ["tree-axes", "--n", "60"],
    "spider": ["spider-axes", "--legs", "4", "--leg-length", "5", "--tree-domain"],
    "lines": ["product-lines", "--n", "4"],
    "axes": ["axes-system", "--n", "40"],
    "q3": ["q3-walls"],
}
RUNS = [
    ["validate", "--in", "{tree}"],
    ["df-check", "--in", "{tree}", "--s", "2000", "--samples", "40"],
    ["psi", "--in", "{tree}", "--samples", "40"],
    ["promote", "--in", "{tree}"],
    ["helly", "--in", "{tree}", "--R", "5"],
    ["pack", "--in", "{tree}", "--R", "3"],
    ["psi", "--in", "{spider}", "--samples", "40", "--L", "3/2"],
    ["promote", "--in", "{spider}", "--L", "2"],
    ["helly", "--in", "{spider}", "--R", "5", "--L", "2"],
    ["promote", "--in", "{lines}"],
    ["build-quasitree", "--in", "{axes}", "--K", "41/2", "--L", "3/2"],
    ["dual", "--in", "{q3}"],
    ["median-check", "--in", "{square}"],
    ["median-check", "--in", "{k23}"],
    ["validate", "--in", "{wide}"],
    ["psi", "--in", "{wide}", "--samples", "10"],
]


def _run_every_subcommand(tmp_path):
    paths = {}
    for name, spec in FIXTURES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        assert main(["gen-fixture", *spec, "--out", paths[name]]) == 0
    for name, doc in INPUTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    for i, args in enumerate(RUNS):
        assert main([a.format(**paths) for a in args] + ["--out", str(tmp_path / f"{i}.out")]) == 0, args


def test_every_member_runs_in_a_subcommand(tmp_path):
    modules = [importlib.import_module(f"cubekit.{m.name}") for m in pkgutil.iter_modules(cubekit.__path__)]
    missing = uncalled_members(modules, lambda: _run_every_subcommand(tmp_path))
    assert [name for name in missing if name not in ALLOWED_MEMBERS] == []
    assert sorted(set(ALLOWED_MEMBERS) - set(missing)) == []  # no stale reason


def test_the_member_check_finds_an_unread_member(tmp_path):
    # two classes with a member of one name: only the one that runs counts
    (tmp_path / "lib_members.py").write_text(
        "import functools\n\n\n"
        "class A:\n"
        "    def used(self):\n        return 1\n\n"
        "    @property\n    def orphan(self):\n        return 2\n\n"
        "    @functools.cached_property\n    def cached(self):\n        return 3\n\n\n"
        "class B:\n"
        "    def used(self):\n        return 4\n"
    )
    sys.path.insert(0, str(tmp_path))
    try:
        lib = importlib.import_module("lib_members")
        a = lib.A()
        assert uncalled_members([lib], lambda: (a.used(), a.cached)) == ["A.orphan", "B.used"]
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("lib_members", None)
