"""Every top-level definition of `src/cubekit` is reached from a subcommand.

A static pass over the package's source: it starts at every top-level
definition of `cli.py` and follows each name a definition uses (a bare name
or an attribute) to the top-level definitions of that name in any module.
A class is reached as a whole, methods included.  Imports are not
definitions, so a name that only an `import` or `__init__` binds counts for
nothing.  What the pass cannot reach serves no subcommand.
"""

import ast
from pathlib import Path

import cubekit

ALLOWED = {"__init__.__version__"}


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
